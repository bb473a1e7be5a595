"""Command-line front end: config parsing, experiment orchestration and
deterministic CSV/JSON emission.

Exit codes: 0 success, 1 usage or malformed config, 2 contract violation,
3 precision ceiling reached or an ill-conditioned control (a flagged result,
scientifically meaningful, not a failure), 4 output IO failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import arith, basis, control as ct, estimates as est, gram, quadratic as qd
from . import regions as rg, reporting, verify
from .basis import ContractViolation, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_PRECISION = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


REGION_SHORTHANDS = {"periodic": {"L": 1.0, "gamma": 0.5}, "halfline": {}, "full": {},
                     "halfspace": {"axis": 0, "c": 0.0}, "ball": {"r": 1.0},
                     "interval": {"a": None, "b": None}, "ballcomp": {"r0": 1.0}}


def parse_region(text, n, N):
    """Region shorthand -> Region, exact but 'periodic', the lattice, cut at
    ``truncate_radius(N, n) + 1`` (safety 1.5 and a unit margin) for cutoff N.

    Shorthands: 'periodic:L=1,gamma=0.5', 'halfline', 'full',
    'ball:r=1' (interval in 1-D), 'interval:a=-1,b=1',
    'halfspace:axis=0,c=0', 'ballcomp:r0=1'.
    """
    head, opts = basis.parse_shorthand(text, REGION_SHORTHANDS)
    if head == "periodic":
        return rg.make_periodic_thick(n, opts["L"], opts["gamma"], rg.truncate_radius(N, n) + 1.0)
    if head == "halfspace":
        return rg.half_space(n, opts["axis"], opts["c"])
    if head == "full":
        return rg.full_space(n)
    if n != 1:
        raise ContractViolation("%s shorthand is one-dimensional" % head)
    if head == "halfline":
        return rg.half_line()
    if head == "ball":
        return rg.Region([(-opts["r"], opts["r"])])
    if head == "interval":
        return rg.Region([(opts["a"], opts["b"])])
    return rg.ball_complement(opts["r0"])


def parse_int_range(text):
    """'4:64:4' -> [4, 8, ..., 64]; '8' -> [8]; '4,9,16' -> [4, 9, 16]."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            lo, hi, step = parts if len(parts) == 3 else parts + [1]
            values = list(range(lo, hi + 1, step))
        else:
            values = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError("malformed cutoff list %r" % text) from None
    if not values:
        raise UsageError("empty cutoff range %r" % text)
    return values


def parse_float_list(text):
    try:
        return [basis.finite_float(p) for p in str(text).split(",")]
    except ValueError:
        raise UsageError("malformed number list %r" % text) from None


CONFIG_KEYS = ("region", "symbol", "n", "N", "T", "seed", "precision_bits", "out", "trials",
               "suite", "gamma", "variant")


def load_config(path, types):
    """Read a JSON config file and validate field types and ranges; each value
    converts with ``types[key]``, the type of the flag of that name."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read config file: %s" % exc)
    except json.JSONDecodeError as exc:
        raise UsageError("malformed config %s: line %d: %s" % (path, exc.lineno, exc.msg))
    if not isinstance(doc, dict):
        raise UsageError("config root must be an object")
    out = {}
    for key, value in doc.items():
        if key not in CONFIG_KEYS:
            raise UsageError("unknown config field %r" % key)
        kind = types[key]
        try:
            if kind is not str and isinstance(value, bool) or (
                    kind is int and isinstance(value, float) and not value.is_integer()):
                raise ValueError  # true is no number and 1.5 no integer: neither converts
            out[key] = kind(value)
        except (TypeError, ValueError):
            raise UsageError("config field %r has invalid value %r" % (key, value))
    if "gamma" in out and not 0.0 < out["gamma"] <= 1.0:
        raise UsageError("config field 'gamma' out of range (0, 1]")
    if "region" in out:
        _, opts = basis.parse_shorthand(out["region"], REGION_SHORTHANDS)
        if not 0.0 < opts.get("gamma", 1.0) <= 1.0:
            raise UsageError("config region gamma out of range (0, 1]")
    if "n" in out and out["n"] < 1:
        raise UsageError("config field 'n' must be >= 1")
    if out.get("precision_bits", 53) < 53:
        raise UsageError("config field 'precision_bits' below 53, double precision")
    if out.get("precision_bits", 53) > arith.MAX_BITS:
        raise UsageError("config field 'precision_bits' above arith.MAX_BITS = %d" % arith.MAX_BITS)
    return out


COMMON_FLAGS = (
    ("--out", {"help": "output stem; writes <out>.json / <out>.csv"}),
    ("--mkdirs", {"action": "store_true"}),
    ("--seed", {"type": int}),
    ("--quiet", {"action": "store_true"}),
)

_VARIANT_FLAGS = {"open": {"x0", "r"}, "density": {"delta", "R0"}, "thick": {"L", "gamma"}}

# name -> (help line, flags after COMMON_FLAGS), in the order of --help
COMMANDS = {
    "basis": ("dimension and self-check of E_N", (
        ("--n", {"type": int, "default": 1}),
        ("--N", {"default": "8"}))),
    "gram": ("restriction Gram matrix on E_N", (
        ("--region", {"default": "halfline"}),
        ("--n", {"type": int, "default": 1}),
        ("--N", {"default": "4"}))),
    "constant": ("sharp spectral constant C_N", (
        ("--region", {"default": "halfline"}),
        ("--n", {"type": int, "default": 1}),
        ("--N", {"default": "8"}),
        ("--precision-bits", {"type": int}))),
    "scaling": ("C_N over a range of cutoffs, with growth fits", (
        ("--region", {"default": "periodic:L=1,gamma=0.5"}),
        ("--n", {"type": int, "default": 1}),
        ("--N", {"default": "4:16:4", "help": "range a:b:c"}),
        ("--variant", {"choices": list(_VARIANT_FLAGS)}),
        ("--precision-bits", {"type": int}),
        ("--plot-data", {"action": "store_true"}))),
    "bounds": ("explicit theoretical bounds", (
        ("--variant", {"default": "thick", "choices": list(_VARIANT_FLAGS)}),
        ("--n", {"type": int, "default": 1}),
        ("--N", {"default": "4:16:4", "help": "range a:b:c"}),
        ("--x0", {"type": basis.finite_float, "default": 0.0}),
        ("--r", {"type": basis.finite_float, "default": 1.0}),
        ("--delta", {"type": basis.finite_float, "default": 0.5}),
        ("--R0", {"type": basis.finite_float, "default": 0.0}),
        ("--L", {"type": basis.finite_float, "default": 1.0}),
        ("--gamma", {"type": basis.finite_float, "default": 0.5}))),
    "remez": ("Remez/Chebyshev growth factors", (
        ("--n", {"type": int, "default": 1}),
        ("--d", {"type": int, "required": True}),
        ("--t", {"type": basis.finite_float}),
        ("--rho", {"type": basis.finite_float}),
        ("--complex-poly", {"action": "store_true"}))),
    "tails": ("Hermite tail bounds and the radius constant c_n", (
        ("--n", {"type": int}),
        ("--k", {"type": int}),
        ("--a", {"type": basis.finite_float}))),
    "symbol": ("Hamilton map and singular space of a symbol", (
        ("--symbol", {"default": "harmonic"}),)),
    "quantize": ("Galerkin matrix of the Weyl quantization", (
        ("--symbol", {"default": "harmonic"}),
        ("--N", {"default": "6"}))),
    "evolve": ("semigroup propagation of an initial expansion", (
        ("--symbol", {"default": "harmonic"}),
        ("--N", {"default": "8"}),
        ("--t", {"type": basis.finite_float, "required": True}),
        ("--f0", {"default": "ground", "help": "'ground', 'random' or a JSON file"}))),
    "observability": ("observability constant C_T", (
        ("--symbol", {"default": "harmonic"}),
        ("--region", {"default": "full"}),
        ("--N", {"default": "8"}),
        ("--T", {"default": "1.0", "help": "single horizon or comma list (blowup study)"}),
        ("--precision-bits", {"type": int}))),
    "control": ("minimal-norm or staircase control synthesis", (
        ("--symbol", {"default": "harmonic"}),
        ("--region", {"default": "full"}),
        ("--N", {"default": "8"}),
        ("--T", {"default": "1.0"}),
        ("--f0", {"default": "random"}),
        ("--staircase", {"action": "store_true"}),
        ("--target", {"type": basis.finite_float, "help": "staircase energy target (default 1e-6)"}),
        ("--precision-bits", {"type": int}))),
    "verify": ("run every invariant suite", (
        ("--suite", {"default": "all", "help": "'all' or comma list of suite names"}),
        ("--trials", {"type": int, "help": "trials per randomized suite, at least 1"}))),
}


class _Commands(argparse._SubParsersAction):
    """The subparsers action of :func:`build_parser`: a command is registered
    by name and help line alone, and its parser is built from ``COMMANDS``
    the first time the command is parsed."""

    def register(self, name, text):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), text))
        self.choices[name] = None

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if self.choices[name] is None:
            sub = self.choices[name] = self._parser_class(prog="%s %s" % (self._prog_prefix, name))
            for flag, kw in COMMON_FLAGS + COMMANDS[name][1]:
                sub.add_argument(flag, **kw)
            acts = [act for act in sub._actions if act.default is not argparse.SUPPRESS]
            parser.flags[name] = {act.dest: act for act in acts}
            parser.defaults[name] = {act.dest: act.default for act in acts}
            for act in acts:
                act.default = argparse.SUPPRESS
        super().__call__(parser, namespace, values, option_string)


def build_parser():
    """The top-level parser, with every subcommand registered and none built
    (:class:`_Commands`).  A subcommand's flags default to absent, so a parse
    holds exactly the flags given: once the command is parsed,
    ``parser.flags[command]`` maps each of its destinations to its action and
    ``parser.defaults[command]`` to its default; ``parser.types`` maps every
    destination of ``COMMANDS`` to its flag's type."""
    parser = _Parser(prog="hermite-obs", description=__doc__)
    parser.add_argument("--config", help="JSON config file merged under CLI flags")
    sub = parser.add_subparsers(dest="command", action=_Commands)
    for name, (text, _) in COMMANDS.items():
        sub.register(name, text)
    parser.flags, parser.defaults = {}, {}
    parser.types = {flag[2:].replace("-", "_"): kw.get("type", str)
                    for _, flags in COMMANDS.values() for flag, kw in COMMON_FLAGS + flags}
    return parser


def _single_N(args):
    values = parse_int_range(args.N)
    if len(values) != 1:
        raise UsageError("this command takes a single cutoff N")
    return values[0]


def _load_f0(spec, n, N, seed):
    if spec == "ground":
        return basis.unit_expansion(n, N, (0,) * n)
    if spec == "random":
        return basis.random_expansion(n, N, np.random.default_rng(seed))
    try:
        with open(spec) as fh:
            return basis.HermiteExpansion.from_json(fh.read())
    except ContractViolation:
        raise  # a wrong order or size stays a contract violation
    except KeyError as exc:
        raise UsageError("initial state %s lacks field %s" % (spec, exc)) from None
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise UsageError("cannot read initial state %s: %s" % (spec, exc)) from None


def _region_gram(text, n, N):
    """The region and its Gram operator on E_N, the one route of ``gram``,
    ``constant``, ``observability`` and ``control``."""
    region = parse_region(text, n, N)
    return region, gram.gram_matrix(region, N)


def _unread(args):
    """The flags the chosen mode never reads, and the error ({flag} names one)."""
    if args.command == "control" and not args.staircase:
        return {"target"}, "--target is the staircase's energy target; HUM takes none"
    if args.command == "tails" and (args.k is not None or args.a is not None):
        return {"n"}, "tails --k --a bounds one Hermite tail; it takes no {flag}"
    if args.command == "remez" and args.t is None:
        return {"complex_poly"}, "{flag} applies to the interval bound of --t; it needs --t"
    if args.command == "bounds":
        unread = set().union(*(f for v, f in _VARIANT_FLAGS.items() if v != args.variant))
        return unread, "bounds --variant %s takes no {flag}" % args.variant
    return set(), ""


def _run_command(args):
    """Dispatch; returns (result, csv_payload, plot_series, exit_code, seed).
    A result whose flag, or the flag of any of its rows, is not 'ok' exits 3."""
    command = args.command
    seed = args.seed if args.seed is not None else 0
    if seed < 0:  # flag or config: numpy's generators take no negative seed
        raise UsageError("seed must be a non-negative integer, not %d" % seed)
    # every pipeline walks arith.precisions(bits); a bad value fails before any work
    bits = getattr(args, "precision_bits", None)
    bits = 53 if bits is None else bits
    arith.check_bits(bits)
    code = EXIT_OK
    csv_payload = None
    plot_series = {}
    region = None

    if command == "basis":
        N = _single_N(args)
        idx = basis.multi_indices(args.n, N)
        result = {"n": args.n, "N": N, "dim": len(idx), "order": "grlex"}

    elif command == "gram":
        N = _single_N(args)
        region, G = _region_gram(args.region, args.n, N)
        result = {"n": args.n, "N": N, "dim": G.size, "entry_error": G.entry_error}
        if G.size <= 32:
            result["matrix"] = [[float(v) for v in row] for row in G.matrix]
        csv_payload = (["row", "col", "value"],
                       [[i, j, float(v)] for (i, j), v in np.ndenumerate(G.matrix)])

    elif command == "constant":
        N = _single_N(args)
        region, G = _region_gram(args.region, args.n, N)
        res = gram.spectral_constant(G, precision_bits=bits)
        result = {
            "n": args.n, "N": N, "C_N": res.c_value, "log_C_N": res.c_log,
            "lambda_min": res.lam_min, "lambda_min_log": res.lam_min_log,
            "precision_bits": res.precision_bits, "flag": res.flag,
        }

    elif command == "scaling":
        N_list = parse_int_range(args.N)
        region = parse_region(args.region, args.n, max(N_list))
        bound, gen = None, region.generator
        if args.variant == "open":  # the ball of a one-interval region, else B(0, 1)
            x0, r = np.zeros(args.n), 1.0
            if gen["kind"] == "explicit" and region.box_count == 1:
                x0, r = (region.lows[0] + region.highs[0]) / 2, np.min(region.highs - region.lows) / 2
            if not np.all((region.lows <= x0 - r) & (region.highs >= x0 + r), axis=1).any():
                raise ContractViolation("open bound: no box contains [x0-r, x0+r]^n, x0 = %s, r = %r"
                                        % (x0.tolist(), float(r)))
            bound = gram.open_params(x0.tolist(), r)
        elif args.variant == "density":
            R = rg.truncate_radius(max(N_list), args.n) + 1.0
            bound = gram.density_params(args.n, rg.density_ratio(region, R))
        elif args.variant == "thick":
            if gen["kind"] != "periodic_thick":
                raise ContractViolation("thick bound: only a periodic region gives its L and gamma")
            bound = gram.thick_params(args.n, gen["L"], gen["gamma"])
        rep = gram.scaling_study(region, N_list, bound=bound, precision_bits=bits)
        csv_payload = rep.csv_rows()
        result = {
            "rows": rep.rows, "fits": rep.fits, "best_model": rep.best_model,
            "exponent_p": rep.exponent_p, "dominance_ok": rep.dominance_ok,
            "bound_variant": rep.bound_variant, "aux_constants": rep.aux_constants,
        }
        plot_series["logC_vs_sqrtN"] = (
            [math.sqrt(r["N"]) for r in rep.rows],
            [r["C_log"] for r in rep.rows],
        )

    elif command == "bounds":
        N_list = parse_int_range(args.N)
        if args.variant == "open":
            params = gram.open_params((args.x0,) * args.n, args.r)
        elif args.variant == "density":
            params = gram.density_params(args.n, args.delta, args.R0)
        else:
            params = gram.thick_params(args.n, args.L, args.gamma)
        rows = []
        for N in N_list:
            bound, blog = gram.theoretical_bound(params, N), gram.theoretical_bound_log(params, N)
            rows.append([N, args.variant, math.nan if bound is None else bound,
                         math.nan if blog is None else blog])
        csv_payload = (["N", "variant", "bound", "log_bound"], rows)
        result = {"variant": args.variant,
                  "rows": [{"N": r[0], "bound": r[2], "log_bound": r[3]} for r in rows]}

    elif command == "remez":
        result = {"n": args.n, "d": args.d}
        if args.t is not None:
            result["interval_bound"] = est.remez_bound(
                args.n, args.d, args.t, complex_poly=args.complex_poly
            )
            result["t"] = args.t
        if args.rho is not None:
            result["ball_bound"] = est.remez_ball_bound(args.n, args.d, args.rho)
            result["rho"] = args.rho

    elif command == "tails":
        if (args.k is None) != (args.a is None):
            raise UsageError("tails with --%s also needs --%s"
                             % (("k", "a") if args.a is None else ("a", "k")))
        if args.k is not None:
            exact, bound = est.hermite_tail_bound(args.k, args.a)
            result = {"k": args.k, "a": args.a, "exact": exact, "bound": bound}
        else:
            if args.n is None:  # --k ignores n, so only this branch records it
                args.n = 1
            tc = est.tail_constant_cn(args.n)
            result = {
                "n": tc.n, "c_n": tc.c, "worst_case": tc.worst_case,
                "certificate": [[N, v] for N, v in tc.certificate],
            }

    elif command == "symbol":
        sym = qd.parse_symbol(args.symbol)
        F = qd.hamilton_map(sym)
        S = qd.singular_space(F)
        result = {
            "symbol": sym.to_json_dict(),
            "hamilton_re": F.re.tolist(),
            "hamilton_im": F.im.tolist(),
            "singular_dims": list(S.dims),
            "k0": S.k0,
            "singular_space_trivial": S.basis.shape[1] == 0,
            "accretive": sym.real_part_psd,
        }

    elif command == "quantize":
        N = _single_N(args)
        sym = qd.parse_symbol(args.symbol)
        A = qd.weyl_quantize(sym, N)
        result = {
            "n": A.n, "N": N, "dim": A.size, "accretive": A.accretive,
            "norm_2": float(np.linalg.norm(A.matrix, 2)),
        }
        if A.size <= 16:
            result["matrix_re"] = A.matrix.real.tolist()
            result["matrix_im"] = A.matrix.imag.tolist()

    elif command == "evolve":
        N = _single_N(args)
        sym = qd.parse_symbol(args.symbol)
        A = qd.weyl_quantize(sym, N)
        f0 = _load_f0(args.f0, A.n, N, seed)
        ft = qd.evolve(A, f0, args.t)
        result = {
            "t": args.t, "initial_norm": f0.norm(), "final_norm": ft.norm(),
            "state": json.loads(ft.to_json()),
        }

    elif command in ("observability", "control"):  # one problem serves every horizon
        T_list = parse_float_list(args.T)
        if command == "control" and len(T_list) != 1:
            raise UsageError("control takes a single horizon T")
        N = _single_N(args)
        A = qd.weyl_quantize(qd.parse_symbol(args.symbol), N)
        region, G = _region_gram(args.region, A.n, N)
        problem = ct.ControlProblem(A, G.matrix)

    if command == "observability":
        study = ct.cost_blowup_study(problem, T_list, precision_bits=bits)
        csv_payload = (["T", "C_T", "precision_bits", "method"],
                       [[r["T"], r["C_T"], r["precision_bits"], r["method"]] for r in study.rows])
        if len(T_list) == 1:  # the one row, its c_log as log_C_T
            result = {"log_C_T" if k == "c_log" else k: v for k, v in study.rows[0].items()}
        else:
            result = {"rows": study.rows, "fits": {str(k): v for k, v in study.fits.items()},
                      "k0": study.k0, "excluded": study.excluded}

    elif command == "control":
        T, f0 = T_list[0], _load_f0(args.f0, A.n, N, seed)
        if args.staircase:
            if args.target is None:
                args.target = 1e-6
            res = ct.lr_staircase(problem, T, f0, target=args.target, precision_bits=bits)
            csv_payload = (
                ["stage", "k_j", "stage_cost", "energy_after"],
                [[s["stage"], s["k_j"], s["stage_cost"], s["energy_after"]]
                 for s in res.stages],
            )
            result = {
                "method": "staircase", "residual": res.residual,
                "total_cost": res.total_cost, "stages": res.stages, "flag": res.flag,
            }
        else:
            res = ct.hum_control(problem, T, f0, precision_bits=bits)
            result = {
                "method": "hum", "residual": res.residual, "cost": res.cost,
                "gramian_cond": res.gramian_cond, "precision_bits": res.precision_bits,
                "subintervals": res.subintervals, "taylor_degree": res.taylor_degree,
                "flag": res.flag,
            }
            csv_payload = (
                ["T", "cost", "residual", "precision_bits"],
                [[T, res.cost, res.residual, res.precision_bits]],
            )

    elif command == "verify":
        names = None if args.suite == "all" else args.suite.split(",")
        if not set(names or ()) <= set(verify.SUITES):
            raise UsageError("unknown suite in %r; choose from all, %s"
                             % (args.suite, ", ".join(verify.SUITES)))
        verdicts, ok = verify.run_suites(names, seed=seed, trials=args.trials)
        result = {"verdicts": verdicts, "all_passed": ok}
        csv_payload = (
            ["suite", "trials", "failures", "worst_margin", "seed"],
            [[v["suite"], v["trials"], v["failures"], v["worst_margin"], v["seed"]]
             for v in verdicts],
        )
        if not ok:
            code = EXIT_CONTRACT

    if region is not None:
        result["region"] = region.to_json_dict()
    flags = [result.get("flag", "ok")] + [r.get("flag", "ok") for r in result.get("rows", ())]
    if any(flag != "ok" for flag in flags):
        code = EXIT_PRECISION
    return result, csv_payload, plot_series, code, seed


_PARSER = None  # built by the first run(), shared by every later one


def run(argv):
    """Parse ``argv`` once and run one command.  A value comes from its flag,
    else from the ``--config`` file (keys the subcommand has a flag for), else
    from the parser's default.  A flag or config value that the chosen mode
    never reads is a usage error."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        config = load_config(args.config, parser.types) if args.config else {}
        if args.command is None:
            sys.stderr.write("error: no subcommand given\n")
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        flags = parser.flags[args.command]
        config = {k: v for k, v in config.items() if k in flags}
        for key, value in config.items():  # the flags' own choices
            if flags[key].choices and value not in flags[key].choices:
                raise UsageError("config field %r must be one of %s" % (key, ", ".join(flags[key].choices)))
        given = set(vars(args)) | set(config)  # the parse holds the flags given, no defaults
        args = argparse.Namespace(**{**parser.defaults[args.command], **config, **vars(args)})
        unread, message = _unread(args)
        if given & unread:
            raise UsageError(message.format(flag=flags[min(given & unread)].option_strings[0]))
        result, csv_payload, plot_series, code, seed = _run_command(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except ContractViolation as exc:
        sys.stderr.write("contract violation: %s\n" % exc)
        return EXIT_CONTRACT

    for key, value in config.items():
        if getattr(args, key) != value:
            sys.stderr.write("warning: config %s=%r overridden by flag value %r\n"
                             % (key, value, getattr(args, key)))

    presentation = ("config", "out", "mkdirs", "plot_data", "quiet")
    config_view = {
        k: v for k, v in sorted(vars(args).items())
        if k not in presentation and v is not None
    }
    aux_defaults = {"C_sobolev": gram.DEFAULT_C_SOBOLEV, "C_kov": gram.DEFAULT_C_KOV,
                    "c_1": est.tail_constant_cn(1).c}
    bundle = {
        "command": args.command,
        "result": result,
        "provenance": reporting.provenance(config_view, seed, aux_defaults),
    }
    if not args.quiet:
        sys.stdout.write(reporting.json_text(bundle))
    try:
        if args.out:
            reporting.write_json(args.out + ".json", bundle, mkdirs=args.mkdirs)
            if csv_payload is not None:
                reporting.write_csv(args.out + ".csv", csv_payload[0], csv_payload[1],
                                    mkdirs=args.mkdirs)
            if getattr(args, "plot_data", False):
                for name, (xs, ys) in plot_series.items():
                    reporting.write_xy_series(
                        "%s_%s.dat" % (args.out, name), xs, ys, mkdirs=args.mkdirs
                    )
    except reporting.EmitError as exc:
        sys.stderr.write("io error: %s\n" % exc)
        return EXIT_IO
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

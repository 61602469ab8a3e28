"""Command-line surface.

Subcommands: decompose, symmetrise, verify-identities, classify,
superselect, coins, bloch, fig3, model, theory, toy-theories.

Exit codes: 0 on success, 1 when a verification fails (a residual exceeds
its tolerance or a certified decomposition cannot be produced), 2 on
usage or input errors (input or output past a size budget included), 3
when the computation runs out of memory or recursion depth or a
linear-algebra routine fails.  Output is deterministic at a fixed BLAS
thread count: identical argv and seed give byte-identical bytes, with
floats in shortest round-trip form.  The ray vectors of decompose --json
can change with the thread count, since eigh may return another basis
of a degenerate eigenspace; a Young basis with fixed signs (ROADMAP
item 1) would pin them.  Every report is one json.dumps; decompose
--json then places each ray vector's text, written by
hilbert.rays_to_json, into the gap its placeholder left.

Only models and symgroup are imported with this module, so model,
theory and the parser itself never load numpy; each other command
imports its own layers when it runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

from . import models, symgroup

# Output budget of decompose --json: every ray vector is written densely,
# D vectors of D [re, im] pairs, so D**2 pairs held as text until the
# report is printed.  That is about 23 B per pair at peak (7x3: 4.8M
# pairs, 105 MB peak RSS and 0.30 s for the whole process at one BLAS
# thread), so 2**23 pairs, about 0.2 GB, admit 7x3 and refuse 5x5, 6x4
# and 8x3.  The text report writes no vectors and has no budget.
JSON_PAIR_CAP = 2**23


def parse_complex(text: str) -> complex:
    """Accept 1, -2.5, 1+2i, -i, 0.3-0.7j and friends."""
    s = text.strip().lower().replace(" ", "").replace("i", "j")
    s = re.sub(r"(^|[+\-])j", r"\g<1>1j", s)
    try:
        return complex(s)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def tolerance(text: str) -> float:
    """argparse type of --tolerance: a finite number >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:  # false for nan too
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def sample_count(text: str) -> int:
    """argparse type of --samples: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _fmt_complex(z: complex | None) -> list[float] | str:
    return "inf" if z is None else [float(z.real), float(z.imag)]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(obj) -> None:
    print(json.dumps(obj, allow_nan=False))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_decompose(args) -> int:
    from . import hilbert, sectors
    config = hilbert.AssemblyConfig(args.n, args.d)
    if config.n < 2:
        raise ValueError(
            "sector ranks need n >= 2 (for n = 1 the symmetric and "
            "antisymmetric sectors coincide)"
        )
    if args.json and config.dim**2 > JSON_PAIR_CAP:
        raise ValueError(
            f"the JSON report writes dim**2 = {config.dim**2} entries, past the cap "
            f"{JSON_PAIR_CAP}; the text report has no vectors"
        )
    isotypic = sectors.all_isotypic(config)
    ranks = {comp.shape: comp.rank for comp in isotypic}
    total = sum(ranks.values())
    if total != config.dim:
        raise sectors.DecompositionError(f"isotypic ranks sum to {total}, not dim {config.dim}")
    r_s = ranks[(config.n,)]
    r_a = ranks[(1,) * config.n]
    r_p = total - r_s - r_a
    if not args.json:
        print(f"sector ranks for n={args.n}, d={args.d} (dim {config.dim}):")
        print(f"  symmetric     {r_s}")
        print(f"  antisymmetric {r_a}")
        print(f"  para          {r_p}")
        for comp in isotypic:
            dims = ", ".join(str(ray.dim) for ray in comp.rays) or "none"
            print(
                f"  partition {list(comp.shape)}: rank {comp.rank} = "
                f"{comp.copies} x dim {comp.dim_irrep} (rays: {dims})"
            )
        return 0
    # each ray vector is written as "\0", which json.dumps writes as "\u0000"
    # and no other field holds; its text then goes into that gap
    report = json.dumps(
        {
            "command": "decompose",
            "n": args.n,
            "d": args.d,
            "seed": None,
            "tolerance": hilbert.EPS_ABS,
            "ranks": {"symmetric": r_s, "antisymmetric": r_a, "para": r_p},
            "components": [
                {
                    "partition": list(comp.shape),
                    "rank": comp.rank,
                    "irrep_dimension": comp.dim_irrep,
                    "copies": comp.copies,
                    "rays": [{"dim": ray.dim, "vectors": ["\0"] * ray.dim} for ray in comp.rays],
                }
                for comp in isotypic
            ],
        },
        allow_nan=False,
    )
    # every ray vector's text, from one formatting pass, in report order
    blocks = [(ray.index, ray.vectors) for comp in isotypic for ray in comp.rays]
    texts = itertools.chain.from_iterable(hilbert.rays_to_json(config.dim, blocks))
    gaps = report.split('"\\u0000"')
    # written piece by piece: joining them first would hold the text twice
    sys.stdout.writelines(itertools.chain(gaps[:1], *zip(texts, gaps[1:]), ["\n"]))
    return 0


def _cmd_symmetrise(args) -> int:
    from . import hilbert, symmetriser
    config = hilbert.AssemblyConfig(args.n, args.d)
    a = hilbert.matrix_from_json(_read_text(args.input))
    print(hilbert.matrix_to_json(symmetriser.symmetrise(config, a)))
    return 0


def _cmd_verify_identities(args) -> int:
    from . import hilbert, symmetriser
    config = hilbert.AssemblyConfig(args.n, args.d)
    rng = hilbert.rng_for(args.seed)
    worst_a = 0.0
    worst_b = 0.0
    for _ in range(args.samples):
        w = hilbert.random_density(config, rng)
        q = hilbert.random_observable(config, rng)
        res_a, res_b = symmetriser.trace_identity_residuals(config, w, q)
        worst_a = max(worst_a, res_a)
        worst_b = max(worst_b, res_b)
    ok = worst_a <= args.tolerance and worst_b <= args.tolerance
    _emit(
        {
            "command": "verify-identities",
            "n": args.n,
            "d": args.d,
            "samples": args.samples,
            "seed": args.seed,
            "tolerance": args.tolerance,
            "max_residual_a": worst_a,
            "max_residual_b": worst_b,
            "pass": ok,
        }
    )
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    from . import hilbert, sectors
    config = hilbert.AssemblyConfig(args.n, args.d)
    v = hilbert.vector_from_json(_read_text(args.input))
    fam = sectors.SectorProjectors.build(config)
    cls = sectors.classify_vector(fam, v, tol=args.tolerance)
    _emit(
        {
            "command": "classify",
            "n": args.n,
            "d": args.d,
            "seed": None,
            "tolerance": args.tolerance,
            "weights": {
                "symmetric": cls.symmetric_weight,
                "antisymmetric": cls.antisymmetric_weight,
                "para": cls.para_weight,
            },
            "label": cls.label,
        }
    )
    return 0


def _cmd_superselect(args) -> int:
    from . import hilbert, sectors, symmetriser
    config = hilbert.AssemblyConfig(args.n, args.d)
    w = hilbert.matrix_from_json(_read_text(args.input))
    fam = sectors.SectorProjectors.build(config)
    print(hilbert.matrix_to_json(symmetriser.superselect(fam, w)))
    return 0


def _cmd_coins(args) -> int:
    from . import casebook
    stats = casebook.coin_statistics(args.measure)
    _emit({k: str(v) for k, v in stats.as_dict().items()})
    return 0


def _cmd_bloch(args) -> int:
    from . import casebook
    if args.sweep is not None:
        rows = casebook.bloch_sweep(args.sweep)
        print("theta,phi,re_z,im_z,p,re_q,im_q,x,y,height")
        for r in rows:
            z = r["z"]
            re_z, im_z = ("inf", "inf") if z is None else (repr(z.real), repr(z.imag))
            cells = [
                repr(r["theta"]),
                repr(r["phi"]),
                re_z,
                im_z,
                repr(r["p"]),
                repr(r["q"].real),
                repr(r["q"].imag),
                repr(r["x"]),
                repr(r["y"]),
                repr(r["height"]),
            ]
            print(",".join(cells))
        return 0
    if args.xi is None or args.eta is None:
        raise ValueError("bloch needs either --sweep K or both --xi and --eta")
    point = casebook.bloch_point(parse_complex(args.xi), parse_complex(args.eta))
    state = casebook.point_state(point)
    _emit(
        {
            "command": "bloch",
            "seed": None,
            "tolerance": casebook.EPS_BLOCH,
            "z": _fmt_complex(point.z),
            "p": point.p,
            "q": _fmt_complex(point.q),
            "height": point.height,
            "planar": _fmt_complex(point.planar),
            "pure": state.pure,
            "symmetric": state.symmetric,
        }
    )
    return 0


def _cmd_fig3(args) -> int:
    from . import casebook
    report = casebook.fig3_analysis(seed=args.seed, tol=args.tolerance)
    _emit(
        {
            "command": "fig3",
            "seed": report.seed,
            "tolerance": report.tolerance,
            "checks": report.checks,
            "residuals": {
                "reflection": report.reflection_residual,
                "trivial_action": report.trivial_action_residual,
                "plane_invariance": report.plane_invariance_residual,
                "orbit_span": report.orbit_span_residual,
                "schur": report.schur_residual,
                "expectation_spread": report.expectation_spread,
                "no_fermion": report.no_fermion_residual,
            },
            "plane_commutant_dimension": report.plane_commutant_dimension,
            "orbit_span_rank": report.orbit_span_rank,
            "schur_scalar": report.schur_scalar,
            "pass": report.ok,
        }
    )
    return 0 if report.ok else 1


def _cmd_model(args) -> int:
    model = models.model_from_json(_read_text(args.input))
    if args.apply_perm is not None:
        perm = symgroup.parse_permutation(args.apply_perm, n=model.size)
        print(models.model_to_json(models.apply_perm(perm, model)))
        return 0
    if args.describe is not None:
        describe = (
            models.state_description
            if args.describe == "state"
            else models.structure_description
        )
        print(models.format_formula(describe(model)))
        return 0
    if args.permutes:
        cls = models.permute_class(model)
        _emit(
            {
                "command": "model",
                "count": len(cls),
                "models": [models.model_obj(m) for m in cls],
            }
        )
        return 0
    if args.symmetric:
        stabiliser = models.stabiliser(model)
        _emit(
            {
                "command": "model",
                "symmetric": len(stabiliser) > 1,
                "fully_symmetric": len(stabiliser) == math.factorial(model.size),
                "stabilizers": [symgroup.format_cycles(p) for p in stabiliser],
            }
        )
        return 0
    if args.check_formula is not None:
        formula = models.parse_formula(args.check_formula)
        _emit(
            {
                "command": "model",
                "formula": models.format_formula(formula),
                "satisfied": models.satisfies(model, formula),
            }
        )
        return 0
    if args.pad is not None:
        name, _, arity = args.pad.partition(":")
        target = int(arity) if arity else None
        print(models.model_to_json(models.pad_relation(model, name, target)))
        return 0
    print(models.model_to_json(model))
    return 0


def _cmd_theory(args) -> int:
    theory = models.theory_from_json(_read_text(args.input))
    if args.quotient:
        quotient = models.quotient_selection(theory)
        _emit(
            {
                "command": "theory",
                "quotient": {
                    label: [models.model_obj(m) for m in reps]
                    for label, reps in sorted(quotient.items())
                },
            }
        )
        return 0
    report = models.gpc_check(theory)
    _emit(
        {
            "command": "theory",
            "permutable": report.permutable,
            "fixity": report.fixed,
            "gpc_consistent": report.consistent,
        }
    )
    return 0 if report.consistent else 1


def _cmd_toy_theories(args) -> int:
    from . import casebook
    out = {}
    for name, theory in casebook.toy_theories().items():
        report = models.gpc_check(theory)
        out[name] = {
            "theory": models.theory_obj(theory),
            "permutable": report.permutable,
            "fixity": report.fixed,
            "gpc_consistent": report.consistent,
        }
    _emit({"command": "toy-theories", "theories": out})
    return 0


# ---------------------------------------------------------------------------
# parser wiring

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on the first :func:`run`.

    Subcommand NAME is handled by ``_cmd_NAME``, with ``-`` read as ``_``.
    """
    parser = argparse.ArgumentParser(
        prog="permsym",
        description="permutation symmetry workbench: sectors, the symmetriser, "
        "coin and model casework",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_nd(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("decompose", help="sector ranks and generalised rays")
    add_nd(p)
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored: the split draws nothing")
    p.add_argument("--json", action="store_true", help="emit the full JSON report")

    p = sub.add_parser("symmetrise", help="group-average a matrix (JSON in, JSON out)")
    add_nd(p)
    p.add_argument("--input", required=True, help="matrix JSON file, or - for stdin")

    p = sub.add_parser("verify-identities", help="check the two trace identities")
    add_nd(p)
    p.add_argument("--samples", type=sample_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=tolerance)

    p = sub.add_parser("classify", help="sector weights of a state vector")
    add_nd(p)
    p.add_argument("--input", required=True, help="vector JSON file, or - for stdin")
    p.add_argument("--tolerance", type=tolerance)

    p = sub.add_parser("superselect", help="pinch a state by the sector family")
    add_nd(p)
    p.add_argument("--input", required=True, help="matrix JSON file, or - for stdin")

    p = sub.add_parser("coins", help="two-coin toss statistics, exact fractions")
    p.add_argument("--measure", required=True, choices=symgroup.COIN_MEASURES)

    p = sub.add_parser("bloch", help="ratio coordinates on the two-coin ball")
    p.add_argument(
        "--xi", help="amplitude of |HT>, e.g. 1+0i; a negative real part needs the = form, --xi=-0.5+1i"
    )
    p.add_argument("--eta", help="amplitude of |TH>, e.g. --eta=-1-2i")
    p.add_argument("--sweep", type=int, help="emit a CSV sphere grid with K steps")

    p = sub.add_parser("fig3", help="certify the three-coin paraparticle plane")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=tolerance)

    p = sub.add_parser("model", help="inspect a finite model (JSON in)")
    p.add_argument("--input", required=True, help="model JSON file, or - for stdin")
    action = p.add_mutually_exclusive_group()
    action.add_argument("--describe", choices=("state", "structure"))
    action.add_argument("--permutes", action="store_true")
    action.add_argument("--symmetric", action="store_true")
    action.add_argument("--check-formula", metavar="SEXPR")
    action.add_argument("--apply-perm", metavar="PERM", help="e.g. '(1 2)' or '[2,1,3]'")
    action.add_argument("--pad", metavar="REL[:ARITY]")

    p = sub.add_parser("theory", help="permutability and fixity of a theory (JSON in)")
    p.add_argument("--input", required=True, help="theory JSON file, or - for stdin")
    p.add_argument("--quotient", action="store_true")

    p = sub.add_parser("toy-theories", help="the renovators and scribes examples")

    return parser


def _loaded(*names: str) -> tuple[type, ...]:
    """The exception classes, named "module.Class", whose modules are
    loaded: a module never imported cannot have raised its class."""
    found = (name.rpartition(".") for name in names)
    return tuple(getattr(sys.modules[module], cls) for module, _, cls in found if module in sys.modules)


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; map real parse errors to 2
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "tolerance", 0.0) is None:  # not given: read here, not in the parser
        from .hilbert import EPS_ABS
        args.tolerance = EPS_ABS
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except _loaded("permsym.sectors.DecompositionError", "permsym.hilbert.NumericalIntegrityError") as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError, *_loaded("numpy.linalg.LinAlgError")) as exc:
        # before ValueError, which LinAlgError subclasses
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

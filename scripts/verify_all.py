#!/usr/bin/env python3
"""Run the whole verification stack and print one line per check.

Exits 0 only if every check passes.  Useful as a quick smoke run after
changes without invoking the full test suite:

    python scripts/verify_all.py
    python scripts/verify_all.py --configs 2x2 3x2 3x3 4x2 --samples 200
"""

import argparse
import math
import sys
import time

from permsym import casebook, hilbert, models, sectors, symgroup, symmetriser


def parse_config(text: str) -> hilbert.AssemblyConfig:
    """NxD with N >= 2, as the sector checks need, as an assembly config;
    an argparse type, so a bad value is a usage error."""
    n, _, d = text.partition("x")
    try:
        config = hilbert.AssemblyConfig(int(n), int(d))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected NxD such as 3x2, got {text!r} ({exc})") from exc
    if config.n < 2:
        raise argparse.ArgumentTypeError(f"expected NxD with N >= 2, got {text!r}")
    return config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--configs",
        nargs="+",
        type=parse_config,
        default=[parse_config(c) for c in ("2x2", "2x3", "3x2", "3x3", "4x2")],
        help="assembly sizes as NxD",
    )
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance", type=float, default=1e-10)
    args = parser.parse_args()

    t0 = time.perf_counter()
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        tag = "ok  " if ok else "FAIL"
        print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures += 1

    for config in args.configs:
        n, d = config.n, config.d
        fam = sectors.SectorProjectors.build(config)
        r_s, r_a, r_p = fam.ranks()
        want_s = math.comb(d + n - 1, n)
        want_a = math.comb(d, n)
        check(
            f"sector ranks n={n} d={d}",
            (r_s, r_a, r_p) == (want_s, want_a, config.dim - want_s - want_a),
            f"sym {r_s}, anti {r_a}, para {r_p}",
        )

        rays = sectors.assembly_rays(config)
        for shape in symgroup.partitions(n):
            dims = [r.dim for r in rays if r.shape == shape]
            want = symgroup.schur_at_ones(shape, d)
            check(
                f"rays of shape {list(shape)} n={n} d={d}",
                dims == [symgroup.irrep_dimension(shape)] * want,
                f"{len(dims)} rays, hook-content formula {want}",
            )

        rng = hilbert.rng_for(args.seed)
        worst = 0.0
        for _ in range(args.samples):
            w = hilbert.random_density(config, rng)
            q = hilbert.random_observable(config, rng)
            worst = max(worst, symmetriser.verify_identity_a(config, w, q))
            worst = max(worst, symmetriser.verify_identity_b(config, w, q))
        check(
            f"trace identities n={n} d={d}",
            worst <= args.tolerance,
            f"max residual {worst:.2e} over {args.samples} pairs",
        )

        q_sym = symmetriser.symmetrise(config, hilbert.random_observable(config, rng))
        report = sectors.schur_check(q_sym, rays, tol=args.tolerance)
        check(
            f"Schur scalars n={n} d={d}",
            report.ok,
            f"off-scalar residual {report.max_residual:.2e}",
        )

        pinch_worst = 0.0
        for _ in range(10):
            w = hilbert.random_density(config, rng)
            q = symmetriser.symmetrise(config, hilbert.random_observable(config, rng))
            pinched = symmetriser.sector_superselect(fam, w)
            pinch_worst = max(
                pinch_worst,
                abs(hilbert.expectation(w, q) - hilbert.expectation(pinched, q)),
            )
        check(
            f"superselection no-signalling n={n} d={d}",
            pinch_worst <= args.tolerance,
            f"max residual {pinch_worst:.2e}",
        )

    sigma_report = symmetriser.is_projector_on_operator_space(
        hilbert.AssemblyConfig(3, 2), samples=20, seed=args.seed, tol=args.tolerance
    )
    check(
        "symmetriser is an orthogonal projector on operators",
        sigma_report.ok,
        f"idem {sigma_report.max_idempotence_residual:.2e}, "
        f"adjoint {sigma_report.max_selfadjoint_residual:.2e}",
    )

    fig3 = casebook.fig3_analysis(seed=args.seed, tol=args.tolerance)
    check("three-coin plane certificate", fig3.ok, f"schur scalar {fig3.schur_scalar:.4f}")

    stats = casebook.coin_statistics("bose")
    check("bose coin statistics", list(map(str, stats.probabilities)) == ["1/3"] * 3)

    for name, theory in casebook.toy_theories().items():
        report = models.gpc_check(theory)
        check(
            f"toy theory {name}",
            report.consistent,
            f"permutable {report.permutable}, fixity {report.fixed}",
        )

    elapsed = time.perf_counter() - t0
    print(f"{failures} failure(s) in {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

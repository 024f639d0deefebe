"""Command line surface.

Subcommands cover the pipeline stages one by one (classify, bipartitions,
spectrum, certify, simulate, predict), the full report, and a coefficient
sweep that runs in process on one loaded network and one partner
decomposition.  Exit codes: 0 on success,
2 when a certificate or outcome lands on Inconclusive or Divergence, 1 on
any error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dynamics import OutcomeKind, assess, integrate, predict_final
from .errors import GqsbError, TooLarge
from .fileio import (
    DETAILS,
    HIGHLAND_SENTINEL,
    ScenarioConfig,
    certificate_dict,
    classification_dict,
    enumerate_dict,
    outcome_dict,
    render_json,
    report_to_json,
    run_pipeline,
    run_sweep,
    start_state,
    trajectory_to_csv,
    _resolve_network,
)
from .operators import generalized_laplacian, opposing_laplacian, repelling_laplacian
from .signed_graph import bipartition_from_dominant, positive_components
from .spectral import Verdict, certify, sym_eigen

_BAD_VERDICTS = {Verdict.INCONCLUSIVE.value, Verdict.DIVERGENCE.value,
                 OutcomeKind.DIVERGENCE.value, OutcomeKind.UNDETERMINED.value}
_ENUMERATION_CAP = 20


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gqsbnet")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, dominant=False, dynamics=False, detail=False):
        p.add_argument("--network", required=True,
                       help=f"edge-list file, or '{HIGHLAND_SENTINEL}' for the bundled dataset")
        p.add_argument("--weights", default=None,
                       help="bundled-dataset relabeling 'coop,intra_neg,inter_neg'")
        p.add_argument("--out", default=None, help="output directory")
        if dominant:
            p.add_argument("--dominant", required=True,
                           help="dominant group as 'i,j,...' node list")
            p.add_argument("--gamma", type=float, default=2.0)
        if dynamics:
            p.add_argument("--x0", default=None, help="start-state file")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--dt", type=float, default=None)
            p.add_argument("--tmax", type=float, default=1000.0)
            p.add_argument("--stride", type=int, default=1)
        if detail:
            p.add_argument("--detail", choices=DETAILS, default=DETAILS[0],
                           help="certificate detail: the verdict's margins (summary) "
                                "or also the spectrum, forest and resistance Gram (full)")

    common(sub.add_parser("classify", help="balance class of the network"))
    common(sub.add_parser("bipartitions", help="all antagonistic bipartitions"))
    spectrum = sub.add_parser("spectrum", help="classic and scaled spectra")
    common(spectrum)
    spectrum.add_argument("--dominant", default=None)
    spectrum.add_argument("--gamma", type=float, default=2.0)
    common(sub.add_parser("certify", help="polarization certificate"), dominant=True,
           detail=True)
    common(sub.add_parser("simulate", help="integrate the flow"), dominant=True, dynamics=True)
    common(sub.add_parser("predict", help="closed-form final state"), dominant=True, dynamics=True)
    common(sub.add_parser("report", help="full pipeline report"), dominant=True, dynamics=True,
           detail=True)
    sweep = sub.add_parser("sweep", help="reports across coefficients")
    common(sweep, dynamics=True, detail=True)
    sweep.add_argument("--dominant", required=True)
    sweep.add_argument("--gammas", required=True, help="comma-separated coefficients")
    return top


def _parse_nodes(text: str) -> tuple[int, ...]:
    return tuple(int(f) for f in text.replace(",", " ").split())


def _parse_weights(text: str | None):
    if text is None:
        return None
    parts = [float(f) for f in text.replace(",", " ").split()]
    if len(parts) != 3:
        raise ValueError("--weights needs three values")
    return tuple(parts)


def _config(args, gamma=None) -> ScenarioConfig:
    kwargs = dict(
        network_path=args.network,
        dominant_nodes=_parse_nodes(args.dominant),
        gamma=args.gamma if gamma is None else gamma,
    )
    weights = _parse_weights(args.weights)
    if weights is not None:
        kwargs["weights"] = weights
    for name, key in (("x0", "x0_path"), ("seed", "seed"), ("dt", "dt"),
                      ("tmax", "t_max")):
        if hasattr(args, name):
            kwargs[key] = getattr(args, name)
    return ScenarioConfig(**kwargs)


def _warn_gamma(gamma: float) -> None:
    if gamma <= 1.0:
        print(
            f"note: coefficient {gamma} <= 1 models no dominant amplification; "
            "an asymmetric split needs a coefficient above 1",
            file=sys.stderr,
        )


def _emit(args, name: str, text: str) -> None:
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    else:
        sys.stdout.write(text)


def _network_only(args):
    kwargs = dict(network_path=args.network, dominant_nodes=(0,))
    weights = _parse_weights(args.weights)
    if weights is not None:
        kwargs["weights"] = weights
    g, _, _ = _resolve_network(ScenarioConfig(**kwargs))
    return g


def _cmd_classify(args) -> int:
    g = _network_only(args)
    _emit(args, "classification.json", render_json(classification_dict(g)) + "\n")
    return 0


def _cmd_bipartitions(args) -> int:
    g = _network_only(args)
    p = len(positive_components(g))
    if p > _ENUMERATION_CAP:
        raise TooLarge(f"{p} cooperative components give too many bipartitions to list")
    _emit(args, "bipartitions.json", render_json(enumerate_dict(g)) + "\n")
    return 0


def _cmd_spectrum(args) -> int:
    g = _network_only(args)
    doc = {
        "repelling": list(map(float, sym_eigen(repelling_laplacian(g)).eigenvalues)),
        "opposing": list(map(float, sym_eigen(opposing_laplacian(g)).eigenvalues)),
    }
    if args.dominant is not None:
        b = bipartition_from_dominant(g, _parse_nodes(args.dominant))
        _warn_gamma(args.gamma)
        bundle = generalized_laplacian(g, b, args.gamma)
        doc["scaled"] = list(map(float, bundle.partner.eigenvalues))
    _emit(args, "spectrum.json", render_json(doc) + "\n")
    return 0


def _cmd_certify(args) -> int:
    config = _config(args)
    _warn_gamma(config.gamma)
    g, _, _ = _resolve_network(config)
    b = bipartition_from_dominant(g, config.dominant_nodes)
    cert = certify(g, b, config.gamma)
    _emit(args, "certificate.json", render_json(certificate_dict(cert, args.detail)) + "\n")
    return 2 if cert.verdict.value in _BAD_VERDICTS else 0


def _cmd_simulate(args) -> int:
    config = _config(args)
    _warn_gamma(config.gamma)
    g, _, _ = _resolve_network(config)
    b = bipartition_from_dominant(g, config.dominant_nodes)
    bundle = generalized_laplacian(g, b, config.gamma)
    x0 = start_state(config, g.n)
    traj = integrate(bundle, x0, dt=config.dt, t_max=config.t_max,
                     stop_tol=config.stop_tol)
    outcome = assess(traj, b, config.gamma)
    _emit(args, "trajectory.csv", trajectory_to_csv(traj, stride=args.stride))
    if args.out:
        _emit(args, "outcome.json", render_json(outcome_dict(outcome)) + "\n")
    return 2 if outcome.kind.value in _BAD_VERDICTS else 0


def _cmd_predict(args) -> int:
    config = _config(args)
    _warn_gamma(config.gamma)
    g, _, _ = _resolve_network(config)
    b = bipartition_from_dominant(g, config.dominant_nodes)
    bundle = generalized_laplacian(g, b, config.gamma)
    x0 = start_state(config, g.n)
    final = predict_final(bundle, x0)
    _emit(args, "final_state.json",
          render_json({"x_final": [float(v) for v in final]}) + "\n")
    return 0


def _cmd_report(args) -> int:
    config = _config(args)
    _warn_gamma(config.gamma)
    report = run_pipeline(config)
    _emit(args, "report.json", report_to_json(report, args.detail))
    if args.out and report.trajectory is not None:
        _emit(args, "trajectory.csv",
              trajectory_to_csv(report.trajectory, stride=args.stride))
    verdict = report.certificate.verdict.value
    return 2 if verdict in _BAD_VERDICTS else 0


def _cmd_sweep(args) -> int:
    gammas = [float(f) for f in args.gammas.replace(",", " ").split()]
    if not gammas:
        raise ValueError("--gammas needs at least one value")
    names: dict[str, float] = {}
    for gamma in gammas:
        name = f"report_gamma_{format(gamma, 'g').replace('.', 'p')}.json"
        if name in names:
            raise ValueError(f"coefficients {names[name]!r} and {gamma!r} would both "
                             f"write {name}")
        names[name] = gamma
    reports = run_sweep(_config(args, gamma=gammas[0]), gammas)
    # render every report before writing any, so a failure writes nothing
    texts = [report_to_json(report, args.detail) for report in reports]
    for name, text in zip(names, texts):
        _emit(args, name, text)
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "bipartitions": _cmd_bipartitions,
    "spectrum": _cmd_spectrum,
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "predict": _cmd_predict,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract reserves 2 for
        # Inconclusive/Divergence verdicts, so usage problems map to 1.
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (GqsbError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())

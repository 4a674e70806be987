"""Command line front end: JSON documents in, JSON certificates out.

Subcommands mirror the library surface: ``validate`` checks germ data,
``glue`` runs the shrinking pipeline to a glued atlas, ``glue-sheaf``
restricts sheaf data to the certified cover, ``tep-check`` verifies one
chart's framed connection data, and ``glue-tep`` assembles the global
object.  Reports are written as canonical JSON (sorted keys, no
timestamps) next to a short text summary on stdout, so repeated runs with
one seed are byte identical.

Exit codes: 0 all requested certificates obtained; 2 validation failure
(germ, cocycle, or axiom violation); 3 gluing obstruction (shrinking
exhausted below the radius floor); 4 usage, input, schema, or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .atlas import RADIUS_FLOOR_DEFAULT, run_glue_pipeline, validate_germ_data
from .documents import (
    SCHEMA_IDS,
    atlas_input_from_json,
    dump_report,
    fraction_from_json,
    load_document,
    sheaf_input_from_json,
    tep_data_from_json,
    tep_glue_input_from_json,
)
from .errors import (
    CoverageLossError,
    GermGlueError,
    SchemaError,
    ShrinkExhausted,
    ValidationFailure,
)
from .numeval import float_transition_audit
from .sheaf import glue_sheaf
from .tep import glue_tep, tep_report

OUT_DIR_ENV = "GERMGLUE_OUT"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_OBSTRUCTION = 3
EXIT_INPUT = 4


def _check_budgets(args):
    """Check the search budgets before any input is read; return the
    radius floor."""
    # a negative sample count would be written into the report as run
    if args.samples < 0:
        raise SchemaError(f"--samples must be >= 0, got {args.samples}")
    if args.radius_floor is None:
        return RADIUS_FLOOR_DEFAULT
    floor = fraction_from_json(args.radius_floor)
    if floor <= 0:
        # the radius-halving loops only stop at a positive floor
        raise SchemaError(f"--radius-floor must be positive, got {args.radius_floor}")
    return floor


def _result(args, ok: bool, payload: dict, cover):
    """(ok, payload, exit code); float mode adds the numeric chain audit."""
    if args.mode == "float":
        audit = payload["float_audit"] = float_transition_audit(
            cover, chains=args.samples, seed=args.seed
        )
        ok = ok and audit["ok"]
    return ok, payload, EXIT_OK if ok else EXIT_VALIDATION


def _cmd_validate(args):
    inp = atlas_input_from_json(load_document(args.input, "atlas-input"))
    return True, {"validation": validate_germ_data(inp)}, EXIT_OK


def _cmd_glue(args):
    floor = _check_budgets(args)
    inp = atlas_input_from_json(load_document(args.input, "atlas-input"))
    report, atlas = run_glue_pipeline(
        inp, radius_floor=floor, samples=args.samples, seed=args.seed
    )
    payload = {
        "validation": report,
        "certificates": atlas.certificates,
        "closedness": atlas.closedness,
        "nerve": {
            "pairs": sorted(atlas.nerve_pairs),
            "triples": sorted(atlas.nerve_triples),
        },
        "radii": atlas.cover.radii,
    }
    return _result(args, True, payload, atlas.cover)


def _cmd_glue_sheaf(args):
    floor = _check_budgets(args)
    if not args.atlas:
        raise SchemaError("glue-sheaf needs --atlas pointing at an atlas document")
    atlas_inp = atlas_input_from_json(load_document(args.atlas, "atlas-input"))
    sheaf_inp = sheaf_input_from_json(load_document(args.input, "sheaf-input"))
    _, atlas = run_glue_pipeline(
        atlas_inp, radius_floor=floor, samples=args.samples, seed=args.seed
    )
    glued = glue_sheaf(sheaf_inp, atlas, radius_floor=floor)
    payload = {
        "epsilons": glued.epsilons,
        "det_bounds": glued.det_bounds,
        "atlas_certificates": atlas.certificates,
    }
    return _result(args, True, payload, atlas.cover)


def _cmd_tep_check(args):
    data = tep_data_from_json(load_document(args.input, "tep-input"))
    report = tep_report(data, seed=args.seed)
    ok = report["valid"]
    return ok, {"tep": report}, EXIT_OK if ok else EXIT_VALIDATION


def _cmd_glue_tep(args):
    floor = _check_budgets(args)
    charts, atlas_inp, sheaf_inp, points = tep_glue_input_from_json(
        load_document(args.input, "tep-glue-input")
    )
    glued = glue_tep(
        charts, atlas_inp, sheaf_inp, points=points, radius_floor=floor,
        samples=args.samples, seed=args.seed,
    )
    return _result(
        args, glued.certificate["valid"], {"certificate": glued.certificate},
        glued.atlas.cover,
    )


# Each command parses only the flags it reads, after its input document.
_GLUE_FLAGS = ("--mode", "--radius-floor", "--samples", "--seed", "--out")
_COMMANDS = {
    "validate": (_cmd_validate, "check germ-data axioms for an atlas document",
                 ("--out",)),
    "glue": (_cmd_glue, "run the shrinking pipeline and emit atlas certificates",
             _GLUE_FLAGS),
    "glue-sheaf": (_cmd_glue_sheaf, "glue sheaf data over a certified atlas",
                   ("--atlas", *_GLUE_FLAGS)),
    "tep-check": (_cmd_tep_check, "verify framed connection axioms for one chart",
                  ("--seed", "--out")),
    "glue-tep": (_cmd_glue_tep, "glue chart-wise framed connection data globally",
                 _GLUE_FLAGS),
}
_FLAGS = {
    "--atlas": dict(help="atlas input document"),
    "--mode": dict(choices=("exact", "float"), default="exact",
                   help="float adds a numeric chain audit"),
    "--radius-floor": dict(help="smallest allowed tube radius, as p/q"),
    "--samples": dict(type=int, default=200, help="sample count for seeded audits"),
    "--seed": dict(type=int, default=0, help="audit RNG seed"),
    "--out": dict(help=f"report directory (default ${OUT_DIR_ENV} or .)"),
}


def _error_payload(exc: Exception) -> dict:
    payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    report = getattr(exc, "report", None)
    if report is not None:
        payload["validation"] = report
    return payload


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command, write its report document, print a summary."""
    try:
        ok, payload, code = _COMMANDS[args.command][0](args)
    except ValidationFailure as exc:
        ok, payload, code = False, _error_payload(exc), EXIT_VALIDATION
    except (ShrinkExhausted, CoverageLossError) as exc:
        ok, payload, code = False, _error_payload(exc), EXIT_OBSTRUCTION
    except (SchemaError, GermGlueError, OSError, json.JSONDecodeError) as exc:
        ok, payload, code = False, _error_payload(exc), EXIT_INPUT

    error = payload.pop("error", None)
    envelope = {
        "schema": SCHEMA_IDS["report"],
        "command": args.command,
        "ok": ok,
        "exit_code": code,
        "report": payload,
    }
    if error is not None:
        envelope["error"] = error

    try:
        path = _write_report(args, envelope)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for line in _summary(envelope, path):
        print(line)
    return code


def _write_report(args, envelope: dict) -> str:
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.command}-report.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_report(envelope))
    return path


def _summary(envelope: dict, path: str) -> list:
    lines = [
        f"command: {envelope['command']}",
        f"status: {'ok' if envelope['ok'] else 'FAILED'} (exit {envelope['exit_code']})",
    ]
    if "error" in envelope:
        err = envelope["error"]
        lines.append(f"{err['kind']}: {err['message']}")
    report = envelope.get("report", {})
    certs = report.get("certificates")
    if certs:
        hausdorff = certs.get("hausdorff", {})
        lines.append(f"hausdorff: {hausdorff.get('holds')}")
    if "nerve" in report:
        nerve = report["nerve"]
        lines.append(
            f"nerve: {len(nerve['pairs'])} pairs, {len(nerve['triples'])} triples"
        )
    if "epsilons" in report:
        lines.append(f"charts glued: {len(report['epsilons'])}")
    if "tep" in report:
        tep = report["tep"]
        lines.append(
            "axioms: flatness={} pairing={} IC={} GC={}".format(
                tep["flatness"]["flat"],
                tep["pairing"]["valid"],
                tep["IC"],
                tep["GC"]["holds"],
            )
        )
    if "certificate" in report:
        cert = report["certificate"]
        inter = cert["intertwining"]
        lines.append(
            f"charts: {len(cert['chart_reports'])}, intertwining pairs: "
            f"{inter['pairs_checked']}, residuals: {len(inter['residuals'])}"
        )
    if "float_audit" in report:
        audit = report["float_audit"]
        lines.append(
            f"float audit [{audit['backend']}]: {audit['chains_verified']} chains, "
            f"{audit['violations']} violations, max residual {audit['max_residual']:.3e}"
        )
    lines.append(f"report: {path}")
    return lines


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4 (input error), not argparse's 2 (validation)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each rebuilt one,
    a reference cycle, would be left to the cyclic collector."""
    parser = _Parser(prog="germglue", description="certified gluing of chart-wise germ data")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input", help="input JSON document")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

"""Stable on-disk formats: campaign traces, tabular results, saved models
and the JSON input documents.

A trace directory holds ``trace.csv`` (one row per adaptive iteration),
``design.csv`` (the final dataset), ``model.json`` (final fit),
``config.json`` (fully resolved configuration) and ``timing.csv``
(wall-clock durations, kept separate so the other files are byte-stable
across reruns).  CSV files start with a ``# schema=1`` comment line;
floats are written with ``repr`` for lossless round-trips.

``model.json`` (``save_model``/``load_model``) and the config documents of
the command line (run, bench and verify configs, and the space file of
``fit``) are JSON objects, read only through ``load_document``.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict

import numpy as np

from .design_space import DesignSpace, MixedPoint, make_space
from .engine import CampaignTrace, Strategy
from .errors import IngestionError, ValidationError
from .ezgp import Dataset, EzGpParams, FitConfig, FittedModel, condition, params_to_dict

SCHEMA_LINE = "# schema=1"


def fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(SCHEMA_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and string rows, skipping '#' comment lines."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise IngestionError(f"{path}: no rows")
    return rows[0], rows[1:]


def load_document(path, decode, kind: str):
    """``decode`` applied to the JSON object in ``path``; the only reader of
    JSON input files.

    An unreadable file, invalid JSON, a document that is not an object, a
    missing field or a malformed value is a ValidationError naming the
    file.  A ValidationError raised by ``decode``, such as an out-of-range
    value, keeps its class and gets the file's name in front of its
    message; other ContourSeekerErrors pass through unchanged.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        return decode(doc)
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ValidationError(f"{path}: malformed {kind} ({exc})") from None


def write_json(path, doc: dict, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def given_fields(doc: dict, convert: dict, names: dict | None = None) -> dict:
    """``convert[key](doc[key])`` as field ``names.get(key, key)`` for each key of
    ``convert`` that ``doc`` holds: a field the document leaves out keeps its default."""
    return {(names or {}).get(key, key): conv(doc[key]) for key, conv in convert.items() if key in doc}


def _optional(conv):
    return lambda v: None if v is None else conv(v)


def integral(value) -> int:
    """A whole number of a JSON document, such as a count or a seed, as an
    int.  2.7, true or "3" is a ValueError, where ``int`` would truncate or
    parse it."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected a whole number, got {value!r}")
    return value


def real(value) -> float:
    """A real number of a JSON document as a float.  true or "1.5" is a
    ValueError, where ``float`` would convert it.  NaN and infinities load;
    the range checks of the value's user reject them where they must."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def reals(values) -> tuple[float, ...]:
    """``real`` of each entry of a JSON list."""
    return tuple(real(v) for v in values)


def seed_value(value) -> int:
    """A seed of a JSON document or a ``--seed`` flag: ``integral``, and
    non-negative (``FitConfig``'s and the seed derivation's rule), else a
    ValidationError."""
    value = integral(value)
    if value < 0:
        raise ValidationError(f"seed must be >= 0, got {value}")
    return value


def integrals(values) -> tuple[int, ...]:
    """``integral`` of each entry of a JSON list."""
    return tuple(integral(v) for v in values)


def space_to_dict(space: DesignSpace) -> dict:
    return {
        "quant_bounds": [[lo, hi] for lo, hi in space.quant_bounds],
        "qual_levels": list(space.qual_levels),
    }


def space_from_dict(d: dict) -> DesignSpace:
    return make_space([reals(bounds) for bounds in d["quant_bounds"]], **given_fields(d, {"qual_levels": integrals}))


def params_from_doc(d: dict) -> EzGpParams:
    """The hyperparameters of a document's params block (``params_to_dict``'s
    form), each number read by ``real``."""
    return EzGpParams(real(d["mu"]), np.array(reals(d["sigma2"])), np.array(reals(d["theta0"])),
                      tuple(np.array([reals(row) for row in mat]) for mat in d["theta"]))


def _reject_unknown_keys(d: dict, keys, block: str) -> None:
    """A key outside ``keys`` is a ValidationError: a misspelt setting must not
    silently keep its default."""
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ValidationError(f"unknown {block} setting(s) {unknown}; known: {sorted(keys)}")


_STRATEGY_FIELDS = {"rho": real, "delta": _optional(real), "alpha": real, "ei_alpha": real}
_FIT_FIELDS = {"n_starts": integral, "seed": seed_value, "theta_bounds": reals, "sigma2_rel_bounds": reals,
               "max_fev": _optional(integral), "jitter_scale": real}


def strategy_from_dict(d: dict) -> Strategy:
    _reject_unknown_keys(d, ["kind", *_STRATEGY_FIELDS], "strategy")
    return Strategy(d["kind"], **given_fields(d, _STRATEGY_FIELDS))


def fit_config_from_dict(d: dict) -> FitConfig:
    _reject_unknown_keys(d, _FIT_FIELDS, "fit")
    return FitConfig(**given_fields(d, _FIT_FIELDS))


def model_to_dict(model: FittedModel) -> dict:
    """JSON-ready document; reloading reproduces predictions bit-for-bit
    under the same numeric environment (cross-platform equality is
    best-effort)."""
    return {
        "schema": 1,
        "space": space_to_dict(model.space),
        "params": params_to_dict(model.params),
        "jitter": float(model.jitter),
        "nll": float(model.nll),
        "data": {
            "x_norm": model.data.x.tolist(),
            "z": model.data.z.tolist(),
            "y": [float(v) for v in model.data.responses],
            "transform": model.data.transform,
        },
    }


def model_from_dict(doc: dict) -> FittedModel:
    space = space_from_dict(doc["space"])
    d = doc["data"]
    pts = tuple(MixedPoint(reals(x), integrals(z)) for x, z in zip(d["x_norm"], d["z"]))
    for pt in pts:
        space.validate_point(pt)
    data = Dataset(pts, np.array(reals(d["y"])), **given_fields(d, {"transform": str}))
    # the stored nll is not read: conditioning at the stored jitter recomputes it
    return condition(params_from_doc(doc["params"]), data, space, jitter=real(doc["jitter"]))


def save_model(model: FittedModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> FittedModel:
    """Read a ``save_model`` file (see ``load_document`` for its failures)."""
    return load_document(path, model_from_dict, "model")


# The config-file key of each campaign or bench config field named otherwise.
CONFIG_KEYS = {"per_combo": "candidates_per_combo", "total_runs": "N"}


def config_to_dict(cfg) -> dict:
    """The fields of a ``CampaignConfig`` or ``BenchConfig`` under their
    config-file keys (``CONFIG_KEYS``), as a JSON-ready document."""
    return {CONFIG_KEYS.get(name, name): value for name, value in asdict(cfg).items()}


def _trace_header(space: DesignSpace) -> list[str]:
    return (
        ["iteration", "n_before", "candidate_seed", "chosen_index", "region"]
        + [f"x_{k + 1}" for k in range(space.p)]
        + [f"z_{h + 1}" for h in range(space.q)]
        + ["y_raw", "y_model", "beta", "delta",
           "a1_size", "a2_size", "a1_min_size", "min_ub",
           "i1_index", "i1_mean", "i1_sd", "i1_acq", "i1_score",
           "i2_index", "i2_mean", "i2_sd", "i2_acq", "i2_score",
           "nll", "params", "note"]
    )


def _finalist_cells(f):
    if f is None:
        return [None, None, None, None, None]
    return [f.index, f.mean, f.sd, f.acq_value, f.score]


def save_trace(trace: CampaignTrace, outdir, extra_config: dict | None = None) -> None:
    os.makedirs(outdir, exist_ok=True)
    space = trace.config.space

    rows = []
    for rec in trace.records:
        rows.append(
            [rec.iteration, rec.n_before, rec.candidate_seed, rec.report.chosen_index, rec.report.region]
            + list(space.denormalize(rec.point.x)) + list(rec.point.z)
            + [rec.y_raw, rec.y_model, rec.beta, rec.delta,
               rec.report.a1_size, rec.report.a2_size, rec.report.a1_min_size, rec.report.min_ub]
            + _finalist_cells(rec.report.a1_finalist)
            + _finalist_cells(rec.report.a2_finalist)
            + [rec.nll, json.dumps(rec.params, separators=(",", ":")), rec.note]
        )
    write_csv(os.path.join(outdir, "trace.csv"), _trace_header(space), rows)

    design_header = ([f"x_{k + 1}" for k in range(space.p)]
                     + [f"z_{h + 1}" for h in range(space.q)] + ["y_raw", "y_model"])
    design_rows = []
    for pt, y_raw, y_model in zip(trace.dataset.points, trace.raw_responses, trace.dataset.responses):
        design_rows.append(list(space.denormalize(pt.x)) + list(pt.z) + [y_raw, float(y_model)])
    write_csv(os.path.join(outdir, "design.csv"), design_header, design_rows)

    write_csv(os.path.join(outdir, "timing.csv"), ["iteration", "duration_s"],
              [[rec.iteration, rec.duration_s] for rec in trace.records])

    doc = config_to_dict(trace.config)
    if extra_config:
        doc.update(extra_config)
    doc["aborted"] = trace.aborted
    if trace.error:
        doc["error"] = trace.error
    write_json(os.path.join(outdir, "config.json"), doc, sort_keys=True)
    if trace.model is not None:
        save_model(trace.model, os.path.join(outdir, "model.json"))

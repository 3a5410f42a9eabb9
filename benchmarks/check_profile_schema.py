"""CI gate for ``cli profile`` output: assert the PROFILE_*.json schema.

The profile-smoke CI step runs ``python -m repro.cli profile --scale smoke``
and then this script, which fails the job when the emitted attribution
payload is structurally broken — missing layers, empty figures, fractions
that do not partition the profiled time — so the artifact the next perf PR
starts from is guaranteed usable.

Usage::

    python benchmarks/check_profile_schema.py \
        --profile "profile-out/PROFILE_*.json"

``--profile`` accepts a glob; the newest match is checked.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.perf import PROFILE_SCHEMA, REQUIRED_LAYERS  # noqa: E402

_TOP_LEVEL_KEYS = (
    "schema",
    "created_utc",
    "scale",
    "seed",
    "figures",
)
_LAYER_KEYS = ("self_seconds", "called_seconds", "seconds", "fraction", "top")


def check(payload: dict) -> list:
    """Return a list of schema violations (empty = valid)."""
    errors = []
    for key in _TOP_LEVEL_KEYS:
        if key not in payload:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors
    if payload["schema"] != PROFILE_SCHEMA:
        errors.append(f"schema {payload['schema']!r} != expected {PROFILE_SCHEMA}")
    figures = payload["figures"]
    if not figures:
        errors.append("figures is empty")
    for name, profile in figures.items():
        prefix = f"figures[{name!r}]"
        for key in (
            "figure",
            "wall_seconds",
            "profiled_seconds",
            "mac_share",
            "layers",
        ):
            if key not in profile:
                errors.append(f"{prefix}: missing {key!r}")
        mac_share = profile.get("mac_share")
        if mac_share is not None:
            if not 0.0 <= mac_share <= 1.0:
                errors.append(f"{prefix}: mac_share {mac_share} outside [0, 1]")
            mac_fraction = profile.get("layers", {}).get("mac", {}).get("fraction")
            if mac_fraction is not None and mac_share != mac_fraction:
                errors.append(
                    f"{prefix}: mac_share {mac_share} != layers.mac.fraction "
                    f"{mac_fraction}"
                )
        layers = profile.get("layers", {})
        for layer in REQUIRED_LAYERS:
            if layer not in layers:
                errors.append(f"{prefix}: missing required layer {layer!r}")
        fraction_sum = 0.0
        for layer, entry in layers.items():
            for key in _LAYER_KEYS:
                if key not in entry:
                    errors.append(f"{prefix}.{layer}: missing {key!r}")
            fraction = entry.get("fraction", 0.0)
            if not 0.0 <= fraction <= 1.0:
                errors.append(f"{prefix}.{layer}: fraction {fraction} outside [0, 1]")
            fraction_sum += fraction
        if profile.get("profiled_seconds", 0.0) <= 0.0:
            errors.append(f"{prefix}: profiled_seconds is not positive")
        # Self/called seconds partition the profiled total; rounding may
        # shave a little, but a large gap means attribution lost time.
        if figures and not 0.90 <= fraction_sum <= 1.05:
            errors.append(
                f"{prefix}: layer fractions sum to {fraction_sum:.3f}, "
                "expected ~1.0"
            )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--profile",
        required=True,
        help="emitted PROFILE file (glob ok; newest match wins)",
    )
    args = parser.parse_args(argv)

    matches = sorted(glob.glob(args.profile), key=os.path.getmtime)
    if not matches:
        print(f"ERROR: no profile file matches {args.profile!r}")
        return 2
    path = matches[-1]
    with open(path) as fh:
        payload = json.load(fh)

    errors = check(payload)
    print(f"profile file: {path}")
    if errors:
        for error in errors:
            print(f"  SCHEMA VIOLATION: {error}")
        return 1
    for name, profile in payload["figures"].items():
        ordered = sorted(
            profile["layers"].items(),
            key=lambda item: item[1]["seconds"],
            reverse=True,
        )
        summary = ", ".join(
            f"{layer} {entry['fraction']:.0%}" for layer, entry in ordered[:4]
        )
        print(f"  {name}: {profile['profiled_seconds']:.2f}s profiled; {summary}")
    print("profile schema ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
